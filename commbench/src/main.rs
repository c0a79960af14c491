//! `commbench` — the repository's benchmark.
//!
//! ```text
//! commbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! commbench --workload all  [--seed N] [--seconds S] [--out FILE]
//! commbench --repeat N      [--seed N] [--seconds S]
//! commbench --check         [--seed N]
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! object as the last line of standard output (everything else goes to
//! standard error): with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics. The others run that form in fresh
//! child processes — so peak memory does not leak across rows — and
//! tabulate. See README.md beside this crate for what is measured and why.

mod alloc_count;
mod layers;
mod metrics;
mod recovery;
mod replay;
mod report;
mod script;
mod stats;
mod traced;
mod wire;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Context, Measured, Workload};

#[global_allocator]
static GLOBAL: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

const DEFAULT_SEED: u64 = 1996;
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    corrupt_expected: bool,
    check: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        out: None,
        corrupt_expected: false,
        check: false,
        repeat: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("invalid value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--corrupt-expected" => args.corrupt_expected = true,
            "--check" => args.check = true,
            "--repeat" => {
                let v = value()?;
                args.repeat = Some(v.parse().ok().filter(|n| *n >= 2).ok_or_else(|| bad(&v))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A directory of this process's own beside the executable — inside the
/// build directory, so inside the checkout and ignored by git — removed
/// when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let beside = exe.parent().unwrap_or(Path::new("."));
        let dir = beside.join(format!("commbench-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The one-workload form. Prints the result line; true when nothing failed.
fn run_one(workload: Workload, args: &Args) -> std::io::Result<bool> {
    let scratch = Scratch::create()?;
    let ctx = Context {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.0.clone(),
        corrupt_expected: args.corrupt_expected,
        small: false,
        setups: if args.trace { 1 } else { 3 },
    };
    eprintln!(
        "commbench: {} seed {} for {} s, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (measured, list): (Measured, &[Metric]) = if args.trace {
        let measured = traced::per_layer(workload, &ctx, args.trace_out.as_deref())?;
        (measured, &PER_LAYER)
    } else {
        (workloads::end_to_end(workload, &ctx)?, &END_TO_END)
    };
    drop(scratch);
    let line = report::result_line(&measured, list, !args.trace).map_err(std::io::Error::other)?;
    for metric in list {
        if let Some(value) = measured.get(metric.name) {
            eprintln!(
                "  {:<34} {:>16} {:<6} ({} is better)",
                metric.name,
                report::short(value),
                metric.unit,
                metric.better
            );
        }
    }
    println!("{line}");
    Ok(measured.failed == 0)
}

/// `--check`: every workload once at a small size, correctness only.
fn check(args: &Args) -> std::io::Result<bool> {
    let mut all_ok = true;
    let run = |workload: Workload, corrupt: bool| -> std::io::Result<Measured> {
        let scratch = Scratch::create()?;
        let ctx = Context {
            seed: args.seed,
            seconds: 0.0,
            scratch: scratch.0.clone(),
            corrupt_expected: corrupt,
            small: true,
            setups: 1,
        };
        workloads::end_to_end(workload, &ctx)
    };
    for workload in Workload::ALL {
        let measured = run(workload, false)?;
        let ok = measured.failed == 0 && measured.attempted > 0;
        all_ok &= ok;
        println!(
            "{:<20} {} ({} ops checked, {} failed)",
            workload.name(),
            if ok { "ok" } else { "FAILED" },
            measured.attempted,
            measured.failed
        );
    }
    // The check must be able to fail: one flipped expected byte is one
    // failed op.
    let corrupted = run(Workload::NdjsonDirect, true)?;
    let caught = corrupted.failed == 1;
    all_ok &= caught;
    println!(
        "{:<20} {} (a corrupted expectation {} the run)",
        "self-check",
        if caught { "ok" } else { "FAILED" },
        if caught { "fails" } else { "did not fail" }
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("commbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check {
        check(&args)
    } else if let Some(repeats) = args.repeat {
        report::repeat(repeats, args.seed, args.seconds)
    } else {
        match args.workload.as_deref() {
            Some("all") => report::all(args.seed, args.seconds, args.out.as_deref()),
            Some(name) => match Workload::parse(name) {
                Some(workload) => run_one(workload, &args),
                None => {
                    eprintln!("commbench: unknown workload {name:?}");
                    return ExitCode::from(2);
                }
            },
            None => {
                eprintln!("commbench: give --workload NAME|all, --repeat N or --check");
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("commbench: {e}");
            ExitCode::from(3)
        }
    }
}
