//! Journal-overhead benchmark: grant/release throughput through the full
//! `AllocationService` stack with the write-ahead journal **off**, **on**
//! (fsync-batched, the production default) and at **fsync-every-record**
//! (the zero-loss-window CI setting). Emits `BENCH_journal.json`.
//!
//! Method: steady-state churn — pre-fill a 16×16 machine to 90%
//! occupancy with random-size jobs (1–8 processors), then per iteration
//! release one random live job and allocate fresh random-size
//! replacements until one is refused — so every timed operation commits
//! (and, when journaling, appends) a record. One "op" is one allocate
//! or one release.
//!
//! Doubles as the CI regression gate: `--min-ratio R` exits non-zero
//! when batched-journaled throughput falls below `R ×` the unjournaled
//! baseline (the crash-safety tax must stay bounded).
//!
//! Usage: `journal_overhead [--ops N] [--seed S] [--min-ratio R]`; a
//! flag it cannot read exits 2 rather than running ungated.

use commalloc_bench::{parse_args, Churn, ChurnOp};
use commalloc_cli::args::{number, put, Flag};
use commalloc_service::{
    AllocArgs, AllocOutcome, AllocationService, FileJournal, FsyncPolicy, JournalConfig, RequestCtx,
};
use serde::{Map, Serialize, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const DEFAULT_OPS: usize = 100_000;

fn temp_journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "commalloc-journal-bench-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One churn run; returns ops/second.
fn bench_mode(service: &AllocationService, occupancy: f64, ops: usize, seed: u64) -> f64 {
    let inert = RequestCtx::inert();
    service
        .register("bench", "16x16", Some("Hilbert w/BF"), None, None)
        .expect("fresh service accepts registration");
    let dispatch = |op: ChurnOp| match op {
        ChurnOp::Alloc { job, size } => matches!(
            service.alloc("bench", &AllocArgs::new(job, size), &inert),
            Ok(AllocOutcome::Granted(_))
        ),
        ChurnOp::Release(job) => service.release("bench", job, &inert).is_ok(),
    };
    let mut churn = Churn::prefill(occupancy, seed, dispatch);
    let start = Instant::now();
    let performed = churn.run(ops, dispatch);
    performed as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// The flags as given; an absent one takes its default in `main`.
#[derive(Debug, Default, PartialEq)]
struct Args {
    ops: Option<usize>,
    seed: Option<u64>,
    min_ratio: Option<f64>,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Args>] = &[
    Flag("--ops", Some("N"), |o, v| put(&mut o.ops, number(v).map(Some))),
    Flag("--seed", Some("S"), |o, v| put(&mut o.seed, number(v).map(Some))),
    Flag("--min-ratio", Some("R"), |o, v| put(&mut o.min_ratio, number(v).map(Some))),
];

fn main() {
    let args = parse_args(FLAGS);
    let (ops, seed) = (args.ops.unwrap_or(DEFAULT_OPS), args.seed.unwrap_or(1996));

    let occupancy = 0.9;
    let modes: Vec<(&str, Option<FsyncPolicy>)> = vec![
        ("off", None),
        ("batched", Some(FsyncPolicy::Batched(512))),
        ("no_fsync", Some(FsyncPolicy::Never)),
        ("fsync_every_record", Some(FsyncPolicy::EveryRecord)),
    ];

    let mut results: Vec<Value> = Vec::new();
    let mut baseline = 0.0f64;
    let mut batched_ratio = 0.0f64;
    for (mode, fsync) in modes {
        let mut dir = None;
        let service = match fsync {
            None => AllocationService::new(),
            Some(fsync) => {
                let d = temp_journal_dir(mode);
                let sink = FileJournal::create(
                    &d,
                    JournalConfig {
                        fsync,
                        ..JournalConfig::default()
                    },
                    0,
                    1,
                    0,
                )
                .expect("journal dir is writable");
                dir = Some(d);
                AllocationService::new().with_journal(Arc::new(sink))
            }
        };
        let ops_per_sec = bench_mode(&service, occupancy, ops, seed);
        let ratio = if baseline > 0.0 {
            ops_per_sec / baseline
        } else {
            baseline = ops_per_sec;
            1.0
        };
        if mode == "batched" {
            batched_ratio = ratio;
        }
        println!(
            "journal {mode:>18}: {ops_per_sec:>12.0} ops/s ({:>5.1}% of unjournaled)",
            ratio * 100.0
        );
        let mut row = Map::new();
        row.insert("mode".into(), mode.to_value());
        row.insert("ops_per_sec".into(), ops_per_sec.to_value());
        row.insert("ratio_vs_off".into(), ratio.to_value());
        results.push(Value::Object(row));
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    let mut out = Map::new();
    out.insert("benchmark".into(), "journal_overhead".to_value());
    out.insert("mesh".into(), "16x16".to_value());
    out.insert("allocator".into(), "Hilbert w/BF".to_value());
    out.insert("occupancy".into(), occupancy.to_value());
    out.insert("ops".into(), ops.to_value());
    out.insert("seed".into(), seed.to_value());
    out.insert("results".into(), Value::Array(results));
    out.insert("batched_ratio".into(), batched_ratio.to_value());
    let json = serde_json::to_string_pretty(&Value::Object(out)).expect("rendering is infallible");
    std::fs::write("BENCH_journal.json", &json).expect("can write BENCH_journal.json");
    println!("wrote BENCH_journal.json (batched journaling at {batched_ratio:.2}x baseline)");

    if let Some(min) = args.min_ratio {
        if batched_ratio < min {
            eprintln!(
                "REGRESSION: batched-journal throughput is {batched_ratio:.2}x the \
                 unjournaled baseline, below the {min:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("regression gate passed: {batched_ratio:.2}x >= {min:.2}x");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commalloc_cli::args::parse_flags;

    #[test]
    fn a_gate_that_cannot_be_read_is_refused_not_switched_off() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_flags(FLAGS, &args(&["--min-ratio", "9.9x"])).is_err());
        assert!(parse_flags(FLAGS, &args(&["--min-ration", "9.9"])).is_err());
        assert!(parse_flags(FLAGS, &args(&["--min-ratio"])).is_err());
        // The line scripts/gates.sh runs.
        let ci = parse_flags(FLAGS, &args(&["--ops", "100000", "--min-ratio", "0.5"]));
        let expected = Args {
            ops: Some(100_000),
            seed: None,
            min_ratio: Some(0.5),
        };
        assert_eq!(ci, Ok(expected));
    }
}
