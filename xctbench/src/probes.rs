//! Per-layer probes: each times calls into one layer's public functions
//! at the workload's shape, from outside the program.

use crate::error::BenchError;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use std::hint::black_box;
use xct_comm::{
    run_ranks, run_ranks_traced_wired, CompiledPlans, ExchangeScratch, Wire, WireModel,
};
use xct_exec::{ExecContext, WorkspaceScalar};
use xct_fp16::{AdaptiveNormalizer, StorageScalar, F16};
use xct_io::{DeferredWriter, PrefetchReader, SliceReader, SliceWriter};
use xct_spmm::{spmm_reference_with, spmm_with, ComputeScalar, Csr, KernelMetrics, PackedMatrix};
use xct_telemetry::{Clock, Telemetry};

/// Repeats `f` under spans named `name` until it has run at least
/// `min_reps` times and for at least `min_s` seconds (or `max_reps`
/// times); returns the median call time in seconds and the last result.
pub fn repeat<T>(
    tracer: &Tracer<'_>,
    name: &str,
    (min_reps, max_reps, min_s): (usize, usize, f64),
    mut f: impl FnMut() -> Result<T, BenchError>,
) -> Result<(f64, T), BenchError> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let span = tracer.begin(name);
        let out = f();
        let dt = tracer.end(span);
        let out = out?;
        times.push(dt);
        total += dt;
        if times.len() >= max_reps || (times.len() >= min_reps && total >= min_s) {
            let med = median(&times).unwrap_or(dt);
            return Ok((med, out));
        }
    }
}

/// The kernel's measured rates at one shape.
#[derive(Debug, Clone, Copy)]
pub struct SpmmProbe {
    /// Median seconds of one `spmm_with` call.
    pub call_s: f64,
    /// Median seconds of one `spmm_reference_with` call (one thread).
    pub ref_call_s: f64,
    /// Exact per-call account.
    pub metrics: KernelMetrics,
}

/// Times `spmm_with::<S, C>` on `csr` packed at `fusing` (on `ctx`'s
/// executor), and the plain single-thread reference kernel on the same
/// matrix.
pub fn spmm<S, C>(
    tracer: &Tracer<'_>,
    csr: &Csr<f32>,
    scale: f32,
    (block, shared, fusing): (usize, usize, usize),
    ctx: &mut ExecContext,
) -> Result<SpmmProbe, BenchError>
where
    S: StorageScalar + WorkspaceScalar,
    C: ComputeScalar + WorkspaceScalar,
{
    let scaled = Csr::<S>::from_triplets(
        csr.num_rows(),
        csr.num_cols(),
        csr.triplets().map(|(r, c, v)| (r, c, v * scale)),
    );
    let packed = PackedMatrix::pack(&scaled, block, shared, fusing);
    let x: Vec<S> = (0..csr.num_cols() * fusing)
        .map(|i| S::from_f32(((i * 37 + 11) % 101) as f32 / 101.0))
        .collect();
    let mut y = vec![S::from_f32(0.0); csr.num_rows() * fusing];
    let (call_s, metrics) = repeat(tracer, "spmm.kernel", (5, 400, 0.3), || {
        Ok(spmm_with::<S, C>(&packed, black_box(&x), &mut y, ctx))
    })?;
    let mut serial = ExecContext::serial();
    let (ref_call_s, _) = repeat(tracer, "spmm.reference", (3, 200, 0.2), || {
        Ok(spmm_reference_with::<S, C>(
            &packed,
            black_box(&x),
            &mut y,
            &mut serial,
        ))
    })?;
    black_box(&y);
    Ok(SpmmProbe {
        call_s,
        ref_call_s,
        metrics,
    })
}

/// Median seconds of one normalize + denormalize round trip through
/// half-precision storage on `len` values, and the bytes it moves.
pub fn fp16_convert(tracer: &Tracer<'_>, len: usize) -> Result<(f64, u64), BenchError> {
    let norm = AdaptiveNormalizer::default();
    let input: Vec<f32> = (0..len).map(|i| (i % 1000) as f32 * 1e-3 - 0.5).collect();
    let mut half = vec![F16::from_f32(0.0); len];
    let mut back = vec![0.0f32; len];
    let (s, _) = repeat(tracer, "fp16.convert", (5, 2000, 0.2), || {
        let factor = norm.normalize_into(black_box(&input), &mut half);
        norm.denormalize_into(&half, factor, &mut back);
        Ok(())
    })?;
    black_box(&back);
    // f32 read + F16 write, then F16 read + f32 write.
    let bytes = 2 * (len * (4 + F16::BYTES)) as u64;
    Ok((s, bytes))
}

/// Per-call latencies (µs) of `reps` blocking `allreduce_sum`s on rank
/// 0 of a `ranks`-rank world with `wire`.
pub fn allreduce(
    ranks: usize,
    wire: Option<WireModel>,
    reps: usize,
    clock: &dyn Clock,
) -> Result<Vec<f64>, BenchError> {
    let per_rank = run_ranks_traced_wired(ranks, &Telemetry::disabled(), wire, |comm| {
        let mut lat = Vec::with_capacity(reps);
        for i in 0..reps as u64 {
            let t0 = clock.now_ns();
            comm.allreduce_sum(0x9000 + 2 * i, 1.0)?;
            lat.push(clock.now_ns().saturating_sub(t0) as f64 * 1e-3);
        }
        Ok::<_, xct_comm::CommError>(lat)
    });
    first_rank(per_rank)
}

/// Round-trip latencies (µs) of a 2-rank ping-pong of one f32, no wire.
pub fn sendrecv(reps: usize, clock: &dyn Clock) -> Result<Vec<f64>, BenchError> {
    let per_rank = run_ranks(2, |comm| {
        let mut lat = Vec::with_capacity(reps);
        for i in 0..reps as u64 {
            let tag = 0x100 + i;
            if comm.rank() == 0 {
                let t0 = clock.now_ns();
                comm.send_vals::<f32>(1, tag, &[1.0])?;
                comm.recv_vals::<f32>(1, tag)?;
                lat.push(clock.now_ns().saturating_sub(t0) as f64 * 1e-3);
            } else {
                let v = comm.recv_vals::<f32>(0, tag)?;
                comm.send_vals::<f32>(0, tag, &v)?;
            }
        }
        Ok::<_, xct_comm::CommError>(lat)
    });
    first_rank(per_rank)
}

/// Per-rep seconds (rank 0) of one slice's compiled forward `reduce`
/// followed by its `scatter`, at wire precision `S`.
pub fn exchange<S: Wire>(
    plans: &CompiledPlans,
    wire: Option<WireModel>,
    reps: usize,
    clock: &dyn Clock,
) -> Result<Vec<f64>, BenchError> {
    let per_rank =
        run_ranks_traced_wired(plans.num_ranks(), &Telemetry::disabled(), wire, |comm| {
            let rp = plans.rank(comm.rank());
            let mut scratch = ExchangeScratch::new();
            let partial: Vec<f32> = (0..rp.in_len()).map(|i| (i % 17) as f32 * 0.25).collect();
            let mut owned = vec![0.0f32; rp.owned_len()];
            let mut back = vec![0.0f32; rp.in_len()];
            let mut lat = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = clock.now_ns();
                rp.reduce::<S>(comm, &mut scratch, &partial, 1.0, 1.0, 1 << 44, &mut owned)?;
                rp.scatter::<S>(comm, &mut scratch, &owned, 1.0, 1.0, 1 << 44, &mut back)?;
                lat.push(clock.now_ns().saturating_sub(t0) as f64 * 1e-9);
            }
            Ok::<_, xct_comm::CommError>(lat)
        });
    first_rank(per_rank)
}

fn first_rank(
    per_rank: Vec<Result<Vec<f64>, xct_comm::CommError>>,
) -> Result<Vec<f64>, BenchError> {
    let mut first = None;
    for r in per_rank {
        let lat = r?;
        first.get_or_insert(lat);
    }
    first.ok_or_else(|| BenchError("no ranks ran".to_owned()))
}

/// Percentile helper returning 0 for an empty sample.
pub fn pct(values: &[f64], q: f64) -> f64 {
    quantile(values, q).unwrap_or(0.0)
}

/// Median seconds to read the whole sinogram and to write a volume of
/// `slab_lens` slabs, with the workload's I/O path: plain
/// `SliceReader`/`SliceWriter` per batch, or the streaming
/// `PrefetchReader`/`DeferredWriter`. Returns (read s, write s, bytes
/// read, bytes written).
pub fn io(
    tracer: &Tracer<'_>,
    sinogram: &std::path::Path,
    scratch_volume: &std::path::Path,
    volume_meta: xct_io::SliceFile,
    slab_lens: &[usize],
    streamed: bool,
) -> Result<(f64, f64, u64, u64), BenchError> {
    let (read_s, bytes_in) = repeat(tracer, "io.read", (5, 500, 0.1), || {
        let reader = SliceReader::open(sinogram)?;
        let bytes = reader.meta().payload_bytes();
        if streamed {
            let mut pre = PrefetchReader::new(reader);
            for (i, &len) in slab_lens.iter().enumerate() {
                if i == 0 {
                    pre.prefetch(len);
                }
                let data = pre.next(len)?;
                if let Some(&next) = slab_lens.get(i + 1) {
                    pre.prefetch(next);
                }
                black_box(data);
            }
            pre.into_inner()?.verify_checksum()?;
        } else {
            let mut reader = reader;
            for &len in slab_lens {
                black_box(reader.read_batch(len)?);
            }
            reader.verify_checksum()?;
        }
        Ok(bytes)
    })?;
    let slice = vec![0.25f32; volume_meta.slice_len];
    let (write_s, bytes_out) = repeat(tracer, "io.write", (5, 500, 0.1), || {
        let writer = SliceWriter::create(scratch_volume, volume_meta)?;
        if streamed {
            let mut def = DeferredWriter::new(writer);
            for &len in slab_lens {
                def.write_slab(slice.repeat(len))?;
            }
            def.into_inner()?.finish()?;
        } else {
            let mut writer = writer;
            for _ in 0..slab_lens.iter().sum::<usize>() {
                writer.write_slice(&slice)?;
            }
            writer.finish()?;
        }
        Ok(volume_meta.payload_bytes())
    })?;
    Ok((read_s, write_s, bytes_in, bytes_out))
}
