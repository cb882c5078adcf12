//! The traced run (`--trace 1`): one untraced end-to-end call, one
//! traced call, and the per-layer probes, every call wrapped in a
//! benchmark span. Writes the spans, the per-layer metrics, the
//! attributed layer shares and the program's own telemetry report to
//! `.bench_work/trace-<workload>-<seed>.json`.

use crate::e2e::{timed_call, Timed};
use crate::error::BenchError;
use crate::gate::check_volume;
use crate::host;
use crate::inputs::{scan_for, Inputs};
use crate::probes::{self, pct, repeat};
use crate::report::{per_layer, TRAFFIC};
use crate::run::{plan_for, reconstruct, serial_context, Outcome};
use crate::trace::{self_time_by_name, self_times_ns, spans_json, subtree_shares, Tracer};
use crate::workload::{Path, Workload, SERIAL_THREADS};
use std::collections::BTreeMap;
use xct_comm::{CompiledPlans, HierarchicalPlan, TrafficClass};
use xct_core::decompose::SliceDecomposition;
use xct_core::distributed::DistributedConfig;
use xct_core::ReconOptions;
use xct_exec::{ExecContext, Executor};
use xct_fp16::{Precision, F16};
use xct_geometry::SystemMatrix;
use xct_hilbert::CurveKind;
use xct_io::{FileKind, SliceFile, SliceReader, SliceWriter};
use xct_solver::{cgls_in, CglsConfig, LinearOperator, PrecisionOperator};
use xct_spmm::{Csr, KernelMetrics};
use xct_telemetry::{Breakdown, CausalAnalysis, Clock, Json, Telemetry};

/// `allreduce_sum` calls timed per traced run.
const ALLREDUCE_REPS: usize = 1000;
/// Ping-pong round trips timed per traced run.
const SENDRECV_REPS: usize = 2000;
/// Compiled exchanges timed per traced run.
const EXCHANGE_REPS: usize = 60;
/// Copy and FMA repetitions of the host probes (best is kept).
const HOST_REPS: usize = 5;

/// Result of a traced run.
pub struct Traced {
    /// Calls the gate judged.
    pub attempted: u64,
    /// Calls that failed it.
    pub failed: u64,
    /// Every per-layer metric, in [`per_layer`] order.
    pub metrics: Vec<(String, &'static str, f64)>,
}

/// The workload's operator with every apply timed in a span: lets the
/// trace split `cgls_in` into solver self time and operator time.
struct TimedOp<'a, 'c> {
    inner: &'a PrecisionOperator,
    tracer: &'a Tracer<'c>,
}

impl LinearOperator for TimedOp<'_, '_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(&self, x: &[f32], y: &mut [f32], ctx: &mut ExecContext) {
        self.tracer
            .time("operator.apply", || self.inner.apply(x, y, ctx));
    }

    fn apply_transpose(&self, y: &[f32], x: &mut [f32], ctx: &mut ExecContext) {
        self.tracer.time("operator.apply_transpose", || {
            self.inner.apply_transpose(y, x, ctx)
        });
    }
}

/// Runs `cgls_in` on `op` under a `solver.cgls` span; returns the final
/// residual and the solver's own seconds (the span minus its operator
/// calls).
fn traced_cgls(
    tracer: &Tracer<'_>,
    op: &PrecisionOperator,
    y: &[f32],
    iterations: usize,
    ctx: &mut ExecContext,
) -> (Vec<f32>, f64, f64) {
    let before = tracer.spans().len();
    let span = tracer.begin("solver.cgls");
    let report = cgls_in(
        &TimedOp { inner: op, tracer },
        y,
        &CglsConfig {
            max_iters: iterations,
            tolerance: 0.0,
            damping: 0.0,
        },
        ctx,
        &mut |v| v,
    );
    let total = tracer.end(span);
    let ops: u64 = tracer.spans()[before + 1..]
        .iter()
        .filter(|s| s.parent == Some(before))
        .map(|s| s.duration_ns())
        .sum();
    let residual = report.residual_history.last().copied().unwrap_or(1.0);
    (report.x, residual, total - ops as f64 * 1e-9)
}

/// The serial path replayed through the functions `reconstruct_with_in`
/// and `reconstruct_volume_in` call, each under a span. Returns the
/// worst final residual and the solver's self seconds.
fn replay_serial(
    w: &Workload,
    inputs: &Inputs,
    tracer: &Tracer<'_>,
    telemetry: &Telemetry,
) -> Result<(f64, f64), BenchError> {
    let opts = ReconOptions {
        precision: w.precision,
        iterations: w.iterations,
        ..Default::default()
    };
    let mut reader = tracer.time("io.open", || SliceReader::open(&inputs.sinogram))?;
    let sm = tracer.time("geometry.build", || SystemMatrix::build(&scan_for(w)));
    let csr = tracer.time("spmm.csr", || Csr::from_system_matrix(&sm));
    let mut writer = SliceWriter::create(
        &inputs.volume,
        SliceFile {
            kind: FileKind::Volume,
            precision: reader.meta().precision,
            slices: reader.meta().slices,
            slice_len: sm.num_voxels(),
        },
    )?;
    let mut ctx = serial_context(telemetry);
    ctx.precision = w.precision;
    let (mut worst, mut solver_s) = (0.0f64, 0.0);
    while let Some(batch) = tracer.time("io.read", || reader.read_batch(w.batch))? {
        let fusing = batch.len() / sm.num_rays();
        let op = tracer.time("spmm.pack", || {
            PrecisionOperator::new(
                &csr,
                w.precision,
                fusing,
                opts.block_size,
                opts.shared_bytes,
            )
        });
        let (x, residual, self_s) = traced_cgls(tracer, &op, &batch, w.iterations, &mut ctx);
        worst = worst.max(residual);
        solver_s += self_s;
        tracer.time("io.write", || {
            x.chunks(sm.num_voxels())
                .try_for_each(|slice| writer.write_slice(slice))
        })?;
    }
    tracer.time("io.finish", || -> Result<(), BenchError> {
        reader.verify_checksum()?;
        writer.finish()?;
        Ok(())
    })?;
    Ok((worst, solver_s))
}

/// Gate bookkeeping for the traced run.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn judge(&mut self, w: &Workload, inputs: &Inputs, residual: f64) -> Result<(), BenchError> {
        self.attempted += 1;
        if let Err(why) = check_volume(&inputs.volume, &inputs.truth, residual, w.rel_error_tol)? {
            self.failed += 1;
            eprintln!("gate failure: {} (traced run): {why}", w.name);
        }
        Ok(())
    }

    fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("gate failure: {what}");
        }
    }
}

/// Per-iteration traffic of the whole run (all ranks and slabs) by class.
fn traffic_per_iter(outcome: &Outcome, iterations: usize) -> Vec<(String, f64)> {
    let classes = [
        TrafficClass::Socket,
        TrafficClass::Node,
        TrafficClass::Global,
        TrafficClass::Control,
    ];
    let mut out = Vec::new();
    for (name, class) in TRAFFIC.iter().zip(classes) {
        let (bytes, msgs) = outcome.comm_stats.iter().fold((0u64, 0u64), |(b, m), r| {
            (
                b + r.class_bytes[class as usize],
                m + r.class_msgs[class as usize],
            )
        });
        let it = iterations.max(1) as f64;
        out.push((format!("comm.bytes_per_iter.{name}"), bytes as f64 / it));
        out.push((format!("comm.msgs_per_iter.{name}"), msgs as f64 / it));
    }
    out
}

/// Per-layer metric values, keyed by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// Every [`per_layer`] metric in order; an unmeasured one is a bug.
    fn ordered(&self) -> Result<Vec<(String, &'static str, f64)>, BenchError> {
        per_layer()
            .into_iter()
            .map(|(name, unit)| match self.0.get(&name) {
                Some(&v) => Ok((name, unit, v)),
                None => Err(BenchError(format!("metric {name} was not measured"))),
            })
            .collect()
    }
}

/// The traced run's shared state.
struct Cx<'a, 'c> {
    w: &'a Workload,
    inputs: &'a Inputs,
    tracer: &'a Tracer<'c>,
    clock: &'a dyn Clock,
    m: Metrics,
}

/// What the set-up layers hand to the later probes.
struct Setup {
    /// Slabs (planned path) or batches (serial path) per run.
    slabs: usize,
    /// Slices per slab or batch.
    fusing: usize,
    /// The full slice operator.
    full_csr: Csr<f32>,
    /// The operator one SpMM call runs on: the full one on the serial
    /// path, rank 0's restriction on the planned path.
    kernel_csr: Csr<f32>,
    /// Fusing of one SpMM call: the batch on the serial path, 1 on the
    /// planned path (ranks pipeline slices one at a time).
    kernel_fusing: usize,
    /// Kernel tile shape: threads per block, staging bytes.
    block: usize,
    shared: usize,
    /// Compiled exchange programs (planned path only).
    plans: Option<CompiledPlans>,
}

/// Median per-call seconds of each layer, for attribution.
#[derive(Default)]
struct CallTimes {
    build: f64,
    decompose: f64,
    compile: f64,
    pack: f64,
    kernel: f64,
    convert: f64,
    solver_per_iter: f64,
    allreduce: f64,
    exchange: f64,
    io: f64,
}

/// Geometry, core, comm-plan and plan layers.
fn setup_layers(
    cx: &mut Cx,
    serial_batches: usize,
    t: &mut CallTimes,
) -> Result<Setup, BenchError> {
    let w = cx.w;
    let scan = scan_for(w);
    let (build_s, sm) = repeat(cx.tracer, "geometry.build", (3, 50, 0.2), || {
        Ok(SystemMatrix::build(&scan))
    })?;
    t.build = build_s;
    cx.m.set("geometry.build_ms", build_s * 1e3);
    cx.m.set("geometry.nnz", sm.nnz() as f64);
    let full_csr = Csr::from_system_matrix(&sm);
    let setup = match w.path {
        Path::Serial => {
            let opts = ReconOptions::default();
            Setup {
                slabs: serial_batches,
                fusing: w.batch.min(w.slices),
                kernel_csr: full_csr.clone(),
                kernel_fusing: w.batch.min(w.slices),
                full_csr,
                block: opts.block_size,
                shared: opts.shared_bytes,
                plans: None,
            }
        }
        Path::Planned { topology, .. } => {
            let dcfg = DistributedConfig::default();
            let plan = cx.tracer.time("plan.plan", || plan_for(w, cx.inputs))?;
            let (decompose_s, decomp) = repeat(cx.tracer, "core.decompose", (3, 50, 0.2), || {
                Ok(SliceDecomposition::build(
                    &sm,
                    &scan,
                    topology.size(),
                    dcfg.tile,
                    CurveKind::Hilbert,
                ))
            })?;
            let (compile_s, plans) = repeat(cx.tracer, "comm.compile", (3, 50, 0.2), || {
                let ownership = decomp.ray_ownership();
                let hier = HierarchicalPlan::build(&decomp.footprints, &ownership, &topology);
                Ok(CompiledPlans::compile_hierarchical(
                    &decomp.footprints,
                    &ownership,
                    &hier,
                ))
            })?;
            t.decompose = decompose_s;
            t.compile = compile_s;
            Setup {
                slabs: plan.slabs.len(),
                fusing: plan.fusing,
                kernel_csr: decomp.local_ops[0].csr.clone(),
                kernel_fusing: 1,
                full_csr,
                block: dcfg.block_size,
                shared: dcfg.shared_bytes,
                plans: Some(plans),
            }
        }
    };
    cx.m.set("plan.slabs", setup.slabs as f64);
    cx.m.set("core.decompose_ms", t.decompose * 1e3);
    cx.m.set("comm.compile_ms", t.compile * 1e3);
    Ok(setup)
}

/// SpMM packing, kernel rates against the host ceilings, and the fp16
/// conversion the operator wraps around the kernel.
fn spmm_layers(
    cx: &mut Cx,
    s: &Setup,
    ceil: &host::Ceilings,
    t: &mut CallTimes,
) -> Result<KernelMetrics, BenchError> {
    let (w, tracer) = (cx.w, cx.tracer);
    let (pack_s, _) = repeat(tracer, "spmm.pack", (3, 50, 0.2), || {
        Ok(PrecisionOperator::new(
            &s.kernel_csr,
            w.precision,
            s.kernel_fusing,
            s.block,
            s.shared,
        ))
    })?;
    t.pack = pack_s;
    cx.m.set("spmm.pack_ms", pack_s * 1e3);
    let mut ctx = if s.plans.is_some() {
        ExecContext::serial()
    } else {
        ExecContext::with_executor(Executor::threads(SERIAL_THREADS))
    };
    let shape = (s.block, s.shared, s.kernel_fusing);
    let csr = &s.kernel_csr;
    let probe = match w.precision {
        Precision::Single => probes::spmm::<f32, f32>(tracer, csr, 1.0, shape, &mut ctx)?,
        Precision::Double => probes::spmm::<f64, f64>(tracer, csr, 1.0, shape, &mut ctx)?,
        Precision::Mixed | Precision::Half => {
            // The operator stores the matrix scaled to unit max (§III-C1).
            let max = csr.triplets().fold(0.0f32, |a, (_, _, v)| a.max(v.abs()));
            let scale = if max > 0.0 { 1.0 / max } else { 1.0 };
            if w.precision == Precision::Half {
                probes::spmm::<F16, F16>(tracer, csr, scale, shape, &mut ctx)?
            } else {
                probes::spmm::<F16, f32>(tracer, csr, scale, shape, &mut ctx)?
            }
        }
    };
    t.kernel = probe.call_s;
    let km = probe.metrics;
    let gflops = km.flops as f64 / probe.call_s * 1e-9;
    let fpb = km.arithmetic_intensity();
    let roof = ceil.fma_gflops.min(ceil.stream_gbs * fpb);
    cx.m.set("spmm.gflops", gflops);
    cx.m.set("spmm.gbs", km.bytes() as f64 / probe.call_s * 1e-9);
    cx.m.set(
        "spmm.roofline_frac",
        if roof > 0.0 { gflops / roof } else { 0.0 },
    );
    cx.m.set("spmm.ref_gflops", km.flops as f64 / probe.ref_call_s * 1e-9);
    cx.m.set("spmm.flop_per_byte", fpb);
    cx.m.set(
        "spmm.padding_frac",
        1.0 - km.flops as f64 / km.padded_flops.max(1) as f64,
    );

    // Idle (0) when the workload stores single precision.
    let mut convert_gbs = 0.0;
    if w.uses_fp16() {
        let (convert_s, bytes) = probes::fp16_convert(tracer, csr.num_cols() * s.kernel_fusing)?;
        t.convert = convert_s;
        convert_gbs = bytes as f64 / convert_s * 1e-9;
    }
    cx.m.set("fp16.convert_gbs", convert_gbs);
    Ok(km)
}

/// Runtime communication: scalar allreduces with the workload's wire,
/// an unwired ping-pong, and one slice's compiled exchange. Idle (0) on
/// the serial path.
fn comm_layers(cx: &mut Cx, s: &Setup, t: &mut CallTimes) -> Result<(), BenchError> {
    let (w, tracer, clock) = (cx.w, cx.tracer, cx.clock);
    let (mut ar, mut sr, mut ex) = (Vec::new(), Vec::new(), Vec::new());
    if let Some(plans) = &s.plans {
        let wire = w.wire_model();
        ar = tracer.time("comm.allreduce", || {
            probes::allreduce(w.ranks(), wire, ALLREDUCE_REPS, clock)
        })?;
        sr = tracer.time("comm.sendrecv", || probes::sendrecv(SENDRECV_REPS, clock))?;
        ex = tracer.time("comm.exchange", || match w.precision {
            Precision::Single => probes::exchange::<f32>(plans, wire, EXCHANGE_REPS, clock),
            Precision::Double => probes::exchange::<f64>(plans, wire, EXCHANGE_REPS, clock),
            Precision::Mixed | Precision::Half => {
                probes::exchange::<F16>(plans, wire, EXCHANGE_REPS, clock)
            }
        })?;
    }
    t.allreduce = pct(&ar, 0.5) * 1e-6;
    t.exchange = pct(&ex, 0.5);
    cx.m.set("comm.allreduce_us_p50", pct(&ar, 0.5));
    cx.m.set("comm.allreduce_us_p99", pct(&ar, 0.99));
    cx.m.set("comm.sendrecv_us_p50", pct(&sr, 0.5));
    cx.m.set("comm.exchange_ms", t.exchange * 1e3);
    Ok(())
}

/// Solver self time per iteration: from the replay on the serial path;
/// the planned path replays one slab serially at the plan's fusing.
fn solver_layer(cx: &mut Cx, s: &Setup, replay_self_s: f64) -> Result<f64, BenchError> {
    let w = cx.w;
    let per_iter = if s.plans.is_some() {
        let op = PrecisionOperator::new(&s.full_csr, w.precision, s.fusing, s.block, s.shared);
        let mut reader = SliceReader::open(&cx.inputs.sinogram)?;
        let y = reader
            .read_batch(s.fusing)?
            .ok_or_else(|| BenchError("empty sinogram".to_owned()))?;
        let mut ctx = ExecContext::serial().with_precision(w.precision);
        let span = cx.tracer.begin("solver.replay");
        let (_, _, self_s) = traced_cgls(cx.tracer, &op, &y, w.iterations, &mut ctx);
        cx.tracer.end(span);
        self_s / w.iterations.max(1) as f64
    } else {
        replay_self_s / (w.iterations.max(1) * s.slabs.max(1)) as f64
    };
    cx.m.set("solver.self_ms_per_iter", per_iter * 1e3);
    Ok(per_iter)
}

/// Reads the sinogram and writes a scratch volume with the workload's
/// I/O path and slab sizes.
fn io_layer(cx: &mut Cx, s: &Setup, scratch: &std::path::Path) -> Result<f64, BenchError> {
    let w = cx.w;
    let slab_lens: Vec<usize> = (0..w.slices)
        .step_by(s.fusing.max(1))
        .map(|start| s.fusing.min(w.slices - start))
        .collect();
    let (read_s, write_s, bytes_in, bytes_out) = probes::io(
        cx.tracer,
        &cx.inputs.sinogram,
        scratch,
        SliceFile {
            kind: FileKind::Volume,
            precision: Precision::Single,
            slices: w.slices,
            slice_len: w.n * w.n,
        },
        &slab_lens,
        s.plans.is_some(),
    )?;
    cx.m.set("io.read_gbs", bytes_in as f64 / read_s * 1e-9);
    cx.m.set("io.write_gbs", bytes_out as f64 / write_s * 1e-9);
    Ok(read_s + write_s)
}

/// Attributed share of the untraced call per layer: per-call probe time
/// × the calls the workload makes (per rank; ranks run concurrently).
/// Overlapped work is counted in full, so a negative remainder measures
/// how much of it the run hid.
fn attributed_shares(w: &Workload, s: &Setup, t: &CallTimes, untraced: &Timed) -> Json {
    let iters = w.iterations as f64;
    let slabs = s.slabs as f64;
    let slices_per_slab = w.slices as f64 / slabs;
    // Forward + transpose each iteration plus CGLS's initial transpose,
    // once per fused batch (serial) or once per slice (ranks).
    let per_slab_calls = if s.plans.is_some() {
        slices_per_slab
    } else {
        1.0
    };
    let kernel_calls = (2.0 * iters + 1.0) * slabs * per_slab_calls;
    // Rank 0 sends one control message per allreduce.
    let allreduces = untraced
        .outcome
        .comm_stats
        .first()
        .map_or(0.0, |r| r.class_msgs[TrafficClass::Control as usize] as f64);
    let parts = [
        ("geometry", t.build * slabs),
        ("core", t.decompose * slabs),
        ("comm.plans", t.compile * slabs),
        ("spmm.pack", t.pack * slabs),
        ("spmm.kernel", t.kernel * kernel_calls),
        ("fp16", t.convert * kernel_calls),
        ("solver", t.solver_per_iter * iters * slabs),
        ("comm.allreduce", t.allreduce * allreduces),
        (
            "comm.exchange",
            t.exchange * iters * slabs * slices_per_slab,
        ),
        ("io", t.io),
    ];
    let wall = untraced.wall_s;
    let attributed: f64 = parts.iter().map(|&(_, v)| v).sum();
    Json::object(
        parts
            .iter()
            .map(|&(k, v)| (k, Json::from(v / wall)))
            .chain(std::iter::once((
                "remainder",
                Json::from(1.0 - attributed / wall),
            )))
            .collect(),
    )
}

fn json_pairs<V: Into<Json>>(pairs: impl IntoIterator<Item = (String, V)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k, v.into())).collect())
}

/// Runs the traced run for `w`.
pub fn traced_run(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    clock: &dyn Clock,
    work_dir: &std::path::Path,
) -> Result<Traced, BenchError> {
    let tracer = Tracer::new(clock, seed);
    let mut cx = Cx {
        w,
        inputs,
        tracer: &tracer,
        clock,
        m: Metrics::default(),
    };
    let mut gate = Gate::default();
    let root = tracer.begin("run");

    // End to end, untraced and traced.
    let untraced = tracer.time("e2e.untraced", || {
        timed_call(w, inputs, w.iterations, clock)
    })?;
    gate.judge(w, inputs, untraced.outcome.residual)?;
    let program = Telemetry::enabled();
    let traced_span = tracer.begin("e2e.traced");
    let traced_root = tracer.spans().len() - 1;
    let (traced_residual, replay_self_s) = match w.path {
        Path::Serial => replay_serial(w, inputs, &tracer, &program)?,
        Path::Planned { .. } => (
            reconstruct(w, inputs, w.iterations, &program)?.residual,
            0.0,
        ),
    };
    let traced_s = tracer.end(traced_span);
    gate.judge(w, inputs, traced_residual)?;
    if w.path == Path::Serial {
        gate.require(
            traced_residual.to_bits() == untraced.outcome.residual.to_bits(),
            &format!(
                "replayed residual {traced_residual} differs from the untraced {}",
                untraced.outcome.residual
            ),
        );
    }
    cx.m.set("trace.overhead_frac", traced_s / untraced.wall_s - 1.0);
    cx.m.set("solver.residual", untraced.outcome.residual);
    for (k, v) in traffic_per_iter(&untraced.outcome, w.iterations) {
        cx.m.set(&k, v);
    }

    // Layer probes at the workload's shape, ceilings on the kernel's
    // thread count.
    let threads = if w.path == Path::Serial {
        SERIAL_THREADS
    } else {
        1
    };
    let ceil = tracer.time("host.probe", || host::measure(threads, HOST_REPS, clock))?;
    cx.m.set("host.stream_gbs", ceil.stream_gbs);
    cx.m.set("host.fma_gflops", ceil.fma_gflops);
    let mut t = CallTimes::default();
    let setup = setup_layers(&mut cx, untraced.outcome.slabs, &mut t)?;
    let km = spmm_layers(&mut cx, &setup, &ceil, &mut t)?;
    t.solver_per_iter = solver_layer(&mut cx, &setup, replay_self_s)?;
    comm_layers(&mut cx, &setup, &mut t)?;
    t.io = io_layer(
        &mut cx,
        &setup,
        &work_dir.join(format!("{}-{seed}.io.xctd", w.name)),
    )?;
    tracer.end(root);

    // Spans come from one thread, so children never overlap and the
    // self times must add up to the root span exactly.
    let spans = tracer.spans();
    let self_sum: u64 = self_times_ns(&spans).iter().sum();
    gate.require(
        spans.first().map(|r| r.duration_ns()) == Some(self_sum),
        "trace self times do not sum to the root span",
    );

    let metrics = cx.m.ordered()?;
    let snap = program.snapshot();
    let doc = Json::object(vec![
        ("schema", Json::from("xctbench-trace-v1")),
        ("workload", Json::from(w.name)),
        ("seed", Json::from(seed)),
        (
            "host",
            Json::object(vec![
                ("llc_bytes", Json::from(ceil.llc_bytes)),
                ("stream_array_bytes", Json::from(ceil.array_bytes)),
                ("probe_threads", Json::from(ceil.threads)),
                ("spmm_bytes_read_per_call", Json::from(km.bytes_read)),
                (
                    "spmm_bytes_fit_llc",
                    Json::from(km.bytes_read <= ceil.llc_bytes),
                ),
            ]),
        ),
        ("untraced_s", Json::from(untraced.wall_s)),
        ("traced_s", Json::from(traced_s)),
        (
            "metrics",
            json_pairs(metrics.iter().map(|(k, _, v)| (k.clone(), *v))),
        ),
        (
            "attributed_share",
            attributed_shares(w, &setup, &t, &untraced),
        ),
        (
            "replay_share",
            json_pairs(subtree_shares(&spans, traced_root)),
        ),
        ("self_time_ns", json_pairs(self_time_by_name(&spans))),
        ("spans", spans_json(&spans)),
        (
            "program_report",
            Json::object(vec![
                ("breakdown", Breakdown::from_snapshot(&snap).to_json()),
                (
                    "critical_path",
                    CausalAnalysis::from_snapshot(&snap).to_json(),
                ),
            ]),
        ),
    ]);
    let path = work_dir.join(format!("trace-{}-{seed}.json", w.name));
    std::fs::write(&path, doc.to_string())?;
    println!("trace written to {}", path.display());
    Ok(Traced {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}
