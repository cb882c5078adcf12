//! `xctbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path xctbench/Cargo.toml -- \
//!     --workload fused_serial --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, then either measures
//! the end-to-end metrics with telemetry off (`--trace 0`) or makes the
//! separate traced run that yields the per-layer metrics (`--trace 1`).
//! Every reconstruction passes the correctness gate; the last stdout
//! line is the JSON result. Scratch files go to `.bench_work/` under the
//! current directory.

#![forbid(unsafe_code)]

mod e2e;
mod error;
mod gate;
mod host;
mod inputs;
mod layers;
mod probes;
mod procfs;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use error::BenchError;
use std::path::PathBuf;
use std::process::ExitCode;
use xct_telemetry::MonotonicClock;

/// Parsed command line.
struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, BenchError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| BenchError(format!("{flag} needs a value")))?;
        let bad = || BenchError(format!("invalid value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
                    BenchError(format!(
                        "unknown workload {value:?}; expected one of {names:?}"
                    ))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(BenchError(format!("unknown flag {other:?}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| BenchError("--workload is required".to_owned()))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<String, BenchError> {
    let w = &args.workload;
    let clock = MonotonicClock::new();
    let work_dir = PathBuf::from(".bench_work");
    let inputs = inputs::generate(w, args.seed, &work_dir)?;
    if args.trace {
        let traced = layers::traced_run(w, &inputs, args.seed, &clock, &work_dir)?;
        return Ok(report::result_line(
            traced.attempted,
            traced.failed,
            &traced.metrics,
        ));
    }

    let s = e2e::measure(w, &inputs, args.seconds, &clock)?;
    let median = |v: &[f64], what: &str| {
        stats::median(v).ok_or_else(|| BenchError(format!("no {what} samples")))
    };
    let recon_s = median(&s.recon_s, "recon_s")?;
    let setup_s = median(&s.setup_s, "setup_s")?;
    let rss = s.peak_rss_mb;
    let mvox = stats::mvox_it_per_s(w.voxel_iterations(), recon_s, setup_s)
        .ok_or_else(|| BenchError(format!("recon_s {recon_s} is not above setup_s {setup_s}")))?;
    for f in &s.failures {
        eprintln!("gate failure: {f}");
    }
    let rel_error = s.rel_error.unwrap_or(f64::NAN);
    let summary = |name: &str, unit: &str, v: &[f64], value: f64| {
        let q = |p| stats::quantile(v, p).unwrap_or(f64::NAN);
        println!(
            "{:<14} {value:>12.6} {unit:<9} median of {} (p25 {:.6}, p75 {:.6})",
            name,
            v.len(),
            q(0.25),
            q(0.75)
        );
    };
    println!(
        "{}: n={} angles={} slices={} {} iters={} seed={}",
        w.name, w.n, w.angles, w.slices, w.precision, w.iterations, args.seed
    );
    summary("recon_s", "s", &s.recon_s, recon_s);
    summary("setup_s", "s", &s.setup_s, setup_s);
    println!(
        "{:<14} {mvox:>12.6} {:<9} from the two medians",
        "mvox_it_per_s", "Mvox-it/s"
    );
    println!(
        "{:<14} {rel_error:>12.6} {:<9} exact; residual {:.6}",
        "rel_error",
        "ratio",
        s.residual.unwrap_or(f64::NAN)
    );
    println!(
        "{:<14} {rss:>12.6} {:<9} first full call (VmHWM)",
        "peak_rss_mb", "MiB"
    );
    println!("gate: {} of {} calls failed", s.failed, s.attempted);
    let values = [recon_s, setup_s, mvox, rel_error, rss];
    let metrics: Vec<(String, &str, f64)> = report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), unit, v))
        .collect();
    Ok(report::result_line(s.attempted, s.failed, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xctbench: {e}");
            ExitCode::FAILURE
        }
    }
}
