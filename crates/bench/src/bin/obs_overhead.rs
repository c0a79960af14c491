//! Observability-overhead benchmark: grant/release throughput through
//! the full `AllocationService` stack with the flight recorder
//! **absent** (the untraced `handle` entry point), **disabled** (the
//! traced entry point with the recorder off — the production default:
//! one relaxed atomic load per request) and **enabled** (every request
//! minting an ID and emitting span events into the ring buffers).
//! Emits `BENCH_obs.json`.
//!
//! Method: steady-state churn — pre-fill a 16×16 machine to the target
//! occupancy with random-size jobs (1–8 processors), then per iteration
//! release one random live job and allocate fresh random-size
//! replacements until one is refused. One "op" is one allocate or one release, driven through
//! the daemon's full per-line path (wire parse, dispatch, response
//! render) exactly as a connection worker runs it — only the TCP
//! socket is elided. Each mode keeps a persistent service, and the
//! modes rotate in small slices (many interleave rounds, total time
//! summed per mode) so thermal / scheduling drift lands on all three
//! roughly equally instead of biasing whichever ran in the bad moment.
//!
//! Two more modes price the placement calibration plane on a
//! pattern-declared workload (pattern-scored allocation is much
//! slower than pattern-oblivious allocation regardless of
//! observability, so it needs its own baseline): **patterned** drives
//! pattern-declared allocations through the untraced entry point, and
//! **calibration** drives the same workload with the recorder and the
//! calibration store both on — each grant files a placement record,
//! each release joins it. The calibration ratio is calibration ÷
//! patterned: the full observability stack's overhead, including the
//! scores recording computes that the patterned baseline skips (a lone
//! fitting window is committed unscored unless calibration records it).
//!
//! Doubles as the CI regression gate: `--min-disabled R` / `--min-enabled R`
//! / `--min-calibration R` exit non-zero when the respective mode's
//! throughput falls below `R ×` the untraced baseline (tracing must
//! stay free when off and cheap when on).
//!
//! Usage: `obs_overhead [--ops N] [--seed S] [--rounds N]
//!         [--occupancy F] [--min-disabled R] [--min-enabled R]
//!         [--min-calibration R]`; a flag it cannot read exits 2
//! rather than running ungated.

use commalloc_bench::{parse_args, Churn, ChurnOp};
use commalloc_cli::args::{number, put, Flag};
use commalloc_service::{AllocationService, Request, Response, Stage};
use commalloc_workload::CommPattern;
use serde::{Map, Serialize, Value};
use std::time::Instant;

const DEFAULT_OPS: usize = 200_000;
const DEFAULT_ROUNDS: usize = 40;

/// How a churn drives the service.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The untraced `handle` entry point (no recorder in sight).
    Baseline,
    /// `handle_traced` with the recorder off: the disabled hot path.
    Disabled,
    /// `handle_traced` with the recorder capturing.
    Enabled,
    /// The untraced entry point driving pattern-declared allocations:
    /// the calibration mode's baseline.
    Patterned,
    /// Recorder and calibration store both on, every allocation
    /// pattern-declared: grants file placement records, releases join
    /// them into the calibration cells.
    Calibration,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Disabled => "disabled",
            Mode::Enabled => "enabled",
            Mode::Patterned => "patterned",
            Mode::Calibration => "calibration",
        }
    }

    /// The pattern declared on this mode's allocations.
    fn pattern(self) -> Option<CommPattern> {
        match self {
            Mode::Patterned | Mode::Calibration => Some(CommPattern::AllToAll),
            _ => None,
        }
    }
}

/// One mode's persistent churn state: its own service (pre-filled once)
/// plus the churn's RNG and live-job set, advanced one slice at a time.
struct ModeChurn {
    mode: Mode,
    service: AllocationService,
    churn: Churn,
}

/// One churn operation as the connection worker serves it: build the
/// wire line, parse it, dispatch, render the response line. The traced
/// modes mint a request context and put the parse on the timeline,
/// exactly like `handle_connection`; with the recorder off that is the
/// single relaxed load the disabled gate prices.
fn dispatch(service: &AllocationService, mode: Mode, op: ChurnOp) -> bool {
    let machine = "bench".to_string();
    let line = match op {
        ChurnOp::Alloc { job, size } => Request::Alloc {
            machine,
            job,
            size,
            wait: false,
            walltime: mode.pattern().map(|_| 3600.0),
            pattern: mode.pattern(),
            tenant: None,
        },
        ChurnOp::Release(job) => Request::Release {
            machine: Some(machine),
            job: commalloc_service::JobRef::Bare(job),
        },
    }
    .to_line();
    let response = match mode {
        Mode::Baseline | Mode::Patterned => {
            let request = Request::from_line(&line).expect("bench lines are well-formed");
            service.handle(&request)
        }
        Mode::Disabled | Mode::Enabled | Mode::Calibration => {
            let mut ctx = service.begin();
            let request = Request::from_line(&line).expect("bench lines are well-formed");
            ctx.lap(Stage::Parse, 0, 0);
            service.handle_traced(&request, &ctx)
        }
    };
    std::hint::black_box(response.to_line());
    matches!(
        response,
        Response::Granted { .. } | Response::Released { .. }
    )
}

impl ModeChurn {
    fn new(mode: Mode, occupancy: f64, seed: u64) -> ModeChurn {
        let service = AllocationService::new();
        service
            .recorder()
            .set_enabled(matches!(mode, Mode::Enabled | Mode::Calibration));
        service.calibration().set_enabled(mode == Mode::Calibration);
        service
            .register("bench", "16x16", Some("Hilbert w/BF"), None, None)
            .expect("fresh service accepts registration");
        let churn = Churn::prefill(occupancy, seed, |op| dispatch(&service, mode, op));
        ModeChurn {
            mode,
            service,
            churn,
        }
    }

    /// Advances the churn by `ops` counted operations; returns the
    /// elapsed wall time in seconds and the ops actually performed.
    fn run_slice(&mut self, ops: usize) -> (f64, usize) {
        let (service, mode) = (&self.service, self.mode);
        let start = Instant::now();
        let performed = self.churn.run(ops, |op| dispatch(service, mode, op));
        (start.elapsed().as_secs_f64(), performed)
    }
}

/// The flags as given; an absent one takes its default in `main`.
#[derive(Debug, Default, PartialEq)]
struct Args {
    ops: Option<usize>,
    rounds: Option<usize>,
    seed: Option<u64>,
    occupancy: Option<f64>,
    min_disabled: Option<f64>,
    min_enabled: Option<f64>,
    min_calibration: Option<f64>,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    Flag("--ops", Some("N"), |o, v| put(&mut o.ops, number(v).map(Some))),
    Flag("--rounds", Some("N"), |o, v| put(&mut o.rounds, number(v).map(Some))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v).map(Some))),
    Flag("--occupancy", Some("F"), |o, v| put(&mut o.occupancy, number(v).map(Some))),
    Flag("--min-disabled", Some("R"), |o, v| put(&mut o.min_disabled, number(v).map(Some))),
    Flag("--min-enabled", Some("R"), |o, v| put(&mut o.min_enabled, number(v).map(Some))),
    Flag("--min-calibration", Some("R"), |o, v| put(&mut o.min_calibration, number(v).map(Some))),
];

fn main() {
    let args = parse_args(FLAGS);
    let (ops, seed) = (args.ops.unwrap_or(DEFAULT_OPS), args.seed.unwrap_or(1996));
    let occupancy = args.occupancy.unwrap_or(0.9);
    let rounds = args.rounds.unwrap_or(DEFAULT_ROUNDS).max(1);
    let slice = (ops / rounds).max(1);

    let mut churns = [
        ModeChurn::new(Mode::Baseline, occupancy, seed),
        ModeChurn::new(Mode::Disabled, occupancy, seed),
        ModeChurn::new(Mode::Enabled, occupancy, seed),
        ModeChurn::new(Mode::Patterned, occupancy, seed),
        ModeChurn::new(Mode::Calibration, occupancy, seed),
    ];
    // A warm-up slice per mode (untimed) settles allocator state, lazy
    // init and branch predictors before the measured rotation.
    for churn in &mut churns {
        churn.run_slice(slice);
    }
    let mut time = [0.0f64; 5];
    let mut performed = [0usize; 5];
    for round in 0..rounds {
        // Rotate the starting mode so no mode systematically runs first
        // (first-in-round is where a timer tick is likeliest to land).
        for offset in 0..5 {
            let slot = (round + offset) % 5;
            let (elapsed, done) = churns[slot].run_slice(slice);
            time[slot] += elapsed;
            performed[slot] += done;
        }
    }
    let rate = |slot: usize| performed[slot] as f64 / time[slot].max(1e-9);
    let (baseline, disabled, enabled) = (rate(0), rate(1), rate(2));
    let (patterned, calibration) = (rate(3), rate(4));
    let disabled_ratio = disabled / baseline.max(1e-9);
    let enabled_ratio = enabled / baseline.max(1e-9);
    let calibration_ratio = calibration / patterned.max(1e-9);
    for (slot, churn) in churns.iter().enumerate() {
        println!(
            "{:>8}: {:>12.0} ops/s over {} ops in {} interleaved slices",
            churn.mode.name(),
            rate(slot),
            performed[slot],
            rounds
        );
    }
    println!(
        "disabled/baseline {disabled_ratio:.3}x | enabled/baseline {enabled_ratio:.3}x | \
         calibration/patterned {calibration_ratio:.3}x"
    );

    let mut out = Map::new();
    out.insert("benchmark".into(), "obs_overhead".to_value());
    out.insert("mesh".into(), "16x16".to_value());
    out.insert("occupancy".into(), occupancy.to_value());
    out.insert("ops".into(), ops.to_value());
    out.insert("rounds".into(), rounds.to_value());
    out.insert("seed".into(), seed.to_value());
    out.insert("baseline_ops_per_sec".into(), baseline.to_value());
    out.insert("disabled_ops_per_sec".into(), disabled.to_value());
    out.insert("enabled_ops_per_sec".into(), enabled.to_value());
    out.insert("patterned_ops_per_sec".into(), patterned.to_value());
    out.insert("calibration_ops_per_sec".into(), calibration.to_value());
    out.insert("disabled_ratio".into(), disabled_ratio.to_value());
    out.insert("enabled_ratio".into(), enabled_ratio.to_value());
    out.insert("calibration_ratio".into(), calibration_ratio.to_value());
    out.insert(
        "calibration_joined".into(),
        churns[4].service.calibration().joined_total().to_value(),
    );
    let json = serde_json::to_string_pretty(&Value::Object(out)).expect("rendering is infallible");
    std::fs::write("BENCH_obs.json", &json).expect("can write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    let mut failed = false;
    if let Some(min) = args.min_disabled {
        if disabled_ratio < min {
            eprintln!(
                "FAIL: disabled tracing runs at {disabled_ratio:.3}x of the untraced \
                 baseline, below the {min:.2}x gate"
            );
            failed = true;
        } else {
            println!("disabled gate passed: {disabled_ratio:.3}x >= {min:.2}x");
        }
    }
    if let Some(min) = args.min_enabled {
        if enabled_ratio < min {
            eprintln!(
                "FAIL: enabled tracing runs at {enabled_ratio:.3}x of the untraced \
                 baseline, below the {min:.2}x gate"
            );
            failed = true;
        } else {
            println!("enabled gate passed: {enabled_ratio:.3}x >= {min:.2}x");
        }
    }
    if let Some(min) = args.min_calibration {
        if calibration_ratio < min {
            eprintln!(
                "FAIL: calibration (recorder and store on) runs at {calibration_ratio:.3}x \
                 of the patterned untraced baseline, below the {min:.2}x gate"
            );
            failed = true;
        } else {
            println!("calibration gate passed: {calibration_ratio:.3}x >= {min:.2}x");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_cli::args::parse_flags;

    #[test]
    fn a_gate_that_cannot_be_read_is_refused_not_switched_off() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for gate in ["--min-disabled", "--min-enabled", "--min-calibration"] {
            assert!(parse_flags(FLAGS, &args(&[gate, "0.9x"])).is_err());
            assert!(parse_flags(FLAGS, &args(&[&gate[..gate.len() - 1], "0.9"])).is_err());
        }
        // The line scripts/gates.sh runs.
        let ci = [
            "--min-disabled",
            "0.98",
            "--min-enabled",
            "0.90",
            "--min-calibration",
            "0.88",
        ];
        let expected = Args {
            min_disabled: Some(0.98),
            min_enabled: Some(0.90),
            min_calibration: Some(0.88),
            ..Args::default()
        };
        assert_eq!(parse_flags(FLAGS, &args(&ci)), Ok(expected));
    }
}
