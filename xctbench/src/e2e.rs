//! The timed end-to-end runs (telemetry off): repeated set-up calls
//! (0 CGLS iterations) and full reconstructions, every one of them
//! checked by the correctness gate.

use crate::error::BenchError;
use crate::gate::check_volume;
use crate::inputs::Inputs;
use crate::procfs::{peak_rss_mib, reset_peak_rss};
use crate::run::{reconstruct, Outcome};
use crate::workload::Workload;
use xct_telemetry::{Clock, Telemetry};

/// Minimum set-up calls per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 8;

/// Set-up calls per full call. Set-up time scatters more from call to
/// call than full reconstructions do, so it gets more samples.
pub const SETUP_PER_FULL: usize = 2;

/// Samples of one measured run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall seconds of each full reconstruction.
    pub recon_s: Vec<f64>,
    /// Wall seconds of each set-up (0-iteration) call.
    pub setup_s: Vec<f64>,
    /// Peak RSS (MiB) of the first full reconstruction.
    pub peak_rss_mb: f64,
    /// Relative error of the first full reconstruction that passed.
    pub rel_error: Option<f64>,
    /// Final residual of that reconstruction.
    pub residual: Option<f64>,
    /// Calls made.
    pub attempted: u64,
    /// Calls whose gate failed.
    pub failed: u64,
    /// One line per gate failure.
    pub failures: Vec<String>,
}

/// One timed call: wall seconds, peak RSS and outcome.
pub struct Timed {
    /// Wall seconds from opening the sinogram to the finished volume.
    pub wall_s: f64,
    /// Peak RSS during the call, MiB.
    pub peak_rss_mb: f64,
    /// What the call reported.
    pub outcome: Outcome,
}

/// Runs one reconstruction with telemetry off, timed and with the peak
/// RSS watermark reset just before it.
pub fn timed_call(
    w: &Workload,
    inputs: &Inputs,
    iterations: usize,
    clock: &dyn Clock,
) -> Result<Timed, BenchError> {
    reset_peak_rss()?;
    let t0 = clock.now_ns();
    let outcome = reconstruct(w, inputs, iterations, &Telemetry::disabled())?;
    let wall_s = clock.now_ns().saturating_sub(t0) as f64 * 1e-9;
    Ok(Timed {
        wall_s,
        peak_rss_mb: peak_rss_mib()?,
        outcome,
    })
}

impl Samples {
    /// Gates one call's written volume. A set-up call (0 iterations)
    /// is held to a readable, checksummed volume and a finite residual
    /// only; a full one also to the workload's error tolerance and to
    /// bit-identical results across repeats.
    fn gate(&mut self, w: &Workload, inputs: &Inputs, outcome: &Outcome, full: bool) {
        self.attempted += 1;
        let tol = if full { w.rel_error_tol } else { f64::INFINITY };
        let verdict = match check_volume(&inputs.volume, &inputs.truth, outcome.residual, tol) {
            Ok(Ok(err)) => Ok(err),
            Ok(Err(failure)) => Err(failure.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let verdict = verdict.and_then(|err| match (full, self.rel_error, self.residual) {
            (false, ..) => Ok(()),
            (true, None, _) => {
                self.rel_error = Some(err);
                self.residual = Some(outcome.residual);
                Ok(())
            }
            (true, Some(e0), Some(r0))
                if e0.to_bits() == err.to_bits() && r0.to_bits() == outcome.residual.to_bits() =>
            {
                Ok(())
            }
            (true, ..) => Err(format!(
                "repeat differs: rel_error {err} residual {}",
                outcome.residual
            )),
        });
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures.push(format!(
                "{} ({} iters): {why}",
                w.name,
                if full { w.iterations } else { 0 }
            ));
        }
    }
}

/// Measures `w` for about `seconds`. The first call is a full
/// reconstruction in a fresh process; its peak RSS is `peak_rss_mb`
/// (later calls start from whatever heap the allocator kept). Then
/// cycles of [`SETUP_PER_FULL`] set-up calls and one full call repeat,
/// so drift in the host's speed hits both medians alike, until the time
/// is spent and at least [`SETUP_REPS`] set-up calls ran.
pub fn measure(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    clock: &dyn Clock,
) -> Result<Samples, BenchError> {
    let mut s = Samples::default();
    let start = clock.now_ns();
    let first = timed_call(w, inputs, w.iterations, clock)?;
    s.peak_rss_mb = first.peak_rss_mb;
    s.recon_s.push(first.wall_s);
    s.gate(w, inputs, &first.outcome, true);
    while s.setup_s.len() < SETUP_REPS
        || (clock.now_ns().saturating_sub(start) as f64) * 1e-9 < seconds
    {
        for _ in 0..SETUP_PER_FULL {
            let t = timed_call(w, inputs, 0, clock)?;
            s.setup_s.push(t.wall_s);
            s.gate(w, inputs, &t.outcome, false);
        }
        let t = timed_call(w, inputs, w.iterations, clock)?;
        s.recon_s.push(t.wall_s);
        s.gate(w, inputs, &t.outcome, true);
    }
    Ok(s)
}
